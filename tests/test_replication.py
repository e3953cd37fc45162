"""Replica state, merge algebra, gossip convergence, durability."""
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c3sim.engine import RngStream
from c3sim.replication import (
    Delivery,
    NoReplica,
    ReplicaStore,
    ReplicatedObject,
    UnknownKey,
    merge,
)

from helpers import nid

A, B, C, D, E = nid(1), nid(2), nid(3), nid(4), nid(5)


def obj(value, vv, wall, key="k"):
    return ReplicatedObject(key, value, vv, wall)


def value(store, host, key="k"):
    """The value the host's replica of the key holds."""
    return store.states[key][host].value


class TestMergeAlgebra:
    def test_identical_states_return_first_operand(self):
        a = obj("x", {A: 1}, (3, A))
        b = obj("x", {A: 1}, (3, A))
        assert merge(a, b) is a

    def test_later_write_by_same_writer_wins_both_orders(self):
        older = obj("v1", {A: 1}, (1, A))
        newer = obj("v2", {A: 2}, (2, A))
        for left, right in ((older, newer), (newer, older)):
            out = merge(left, right)
            assert out.value == "v2"
            assert out.vv == {A: 2}
            assert out.wall == (2, A)

    def test_concurrent_writes_tie_break_on_writer_id(self):
        w1 = obj("w1", {A: 1}, (5, A))
        w2 = obj("w2", {B: 1}, (5, B))
        for left, right in ((w1, w2), (w2, w1)):
            out = merge(left, right)
            assert out.value == "w2"
            assert out.wall == (5, B)
            assert out.vv == {A: 1, B: 1}

    def test_version_vector_joins_pointwise(self):
        a = obj("x", {A: 3, B: 1}, (4, A))
        b = obj("y", {B: 2, C: 5}, (6, B))
        out = merge(a, b)
        assert out.vv == {A: 3, B: 2, C: 5}
        assert out.value == "y"

    def test_the_merge_is_the_winners_state_over_the_joined_vv(self):
        loser = obj("x", {A: 2}, (7, A), key="page")
        winner = obj("y", {B: 1}, (9, B), key="page")
        for left, right in ((loser, winner), (winner, loser)):
            out = merge(left, right)
            assert (out.key, out.value, out.wall) == ("page", "y", (9, B))
            assert out.vv == {A: 2, B: 1}
            assert out is not winner  # a new state, not the winner's

    states = st.builds(
        obj,
        value=st.sampled_from(["x", "y", "z"]),
        vv=st.dictionaries(st.sampled_from([A, B, C]), st.integers(1, 3), max_size=3),
        wall=st.tuples(st.integers(0, 3), st.sampled_from([A, B, C])),
    )

    @given(a=states, b=states)
    def test_merge_commutes(self, a, b):
        assert merge(a, b).same_state(merge(b, a))

    @given(a=states, b=states, c=states)
    @settings(max_examples=300)
    def test_merge_associates(self, a, b, c):
        left = merge(merge(a, b), c)
        right = merge(a, merge(b, c))
        assert left.same_state(right)

    @given(a=states)
    def test_merge_idempotent(self, a):
        assert merge(a, a) is a


def diverged_store():
    """Two concurrent writes whose broadcasts were lost."""
    store = ReplicaStore()
    store.ensure("k", [A, B, C])
    store.put("k", "w1", writer=A, at=5, apply_at=A)
    store.put("k", "w2", writer=B, at=5, apply_at=B)
    return store


class TestExhaustiveOrderings:
    # Any schedule of pairwise exchanges that syncs every ordered pair once
    # must land every replica on the same winner.
    def test_all_720_pair_orderings_agree(self):
        base = diverged_store().states["k"]
        pairs = list(itertools.permutations([A, B, C], 2))
        finals = set()
        for order in itertools.permutations(pairs):
            states = dict(base)
            for x, y in order:
                a, b = states.get(x), states.get(y)
                if a is None and b is None:
                    continue
                joined = merge(a, b) if (a and b) else (a or b)
                states[x] = joined
                states[y] = joined
            assert all(states[h].same_state(states[A]) for h in (B, C))
            w = states[A]
            finals.add((w.value, w.wall, tuple(sorted(w.vv.items()))))
        assert finals == {("w2", (5, B), ((A, 1), (B, 1)))}

    def test_store_gossip_reaches_the_same_winner(self):
        store = diverged_store()
        rng = RngStream(0, "gossip")
        rounds = 0
        while not store.converged("k"):
            assert store.gossip_round(6 + rounds, rng, online=lambda h: True) > 0
            rounds += 1
        for host in (A, B, C):
            assert value(store, host) == "w2"


class TestStoreFlow:
    def test_ensure_is_idempotent_and_needs_hosts(self):
        store = ReplicaStore()
        store.ensure("k", [B, A])
        assert store.replica_hosts("k") == [A, B]
        store.ensure("k", [C, D])
        assert store.replica_hosts("k") == [A, B]
        with pytest.raises(NoReplica):
            store.ensure("empty", [])
        with pytest.raises(UnknownKey):
            store.replica_hosts("missing")

    def test_put_requires_a_replica_host(self):
        store = ReplicaStore()
        store.ensure("k", [A, B])
        with pytest.raises(NoReplica):
            store.put("k", 1, writer=C, at=0, apply_at=C)

    def test_put_returns_broadcasts_for_the_other_replicas(self):
        store = ReplicaStore()
        store.ensure("k", [A, B, C])
        deliveries = store.put("k", 7, writer=A, at=2, apply_at=A)
        assert sorted(d.host for d in deliveries) == [B, C]
        assert all(isinstance(d, Delivery) and d.obj.value == 7 for d in deliveries)
        assert value(store, A) == 7
        assert B not in store.states["k"]

    def test_convergence_log_fires_once_all_replicas_match(self):
        entries = []
        store = ReplicaStore(log=lambda at, key, action, node: entries.append((at, key, action)))
        store.ensure("k", [A, B, C])
        deliveries = store.put("k", "v", writer=A, at=1, apply_at=A)
        assert not store.converged("k") and "k" in store.dirty
        for d in deliveries:
            store.deliver("k", d.host, d.obj, at=3)
        assert store.converged("k") and "k" not in store.dirty
        assert entries.count((3, "k", "converged")) == 1

    def test_a_single_replica_put_converges_at_once(self):
        entries = []
        store = ReplicaStore(log=lambda at, key, action, node:
                             entries.append((at, key, action, node)))
        store.ensure("k", [A])
        assert store.put("k", "v", writer=B, at=4, apply_at=A) == []
        assert entries == [(4, "k", "put", A.short), (4, "k", "converged", "")]
        assert store.converged("k") and "k" not in store.dirty

    def test_stale_read_then_gossip_catches_up(self):
        store = ReplicaStore()
        store.ensure("k", [A, B, C])
        for d in store.put("k", "v1", writer=A, at=1, apply_at=A):
            store.deliver("k", d.host, d.obj, at=1)
        store.put("k", "v2", writer=A, at=5, apply_at=A)
        assert value(store, B) == "v1"
        assert value(store, A) == "v2"
        rng = RngStream(3, "gossip")
        while not store.converged("k"):
            store.gossip_round(6, rng, online=lambda h: True)
        assert value(store, B) == "v2"

    def test_a_later_write_by_another_writer_reaches_every_replica(self):
        store = ReplicaStore()
        store.ensure("k", [A, B, C])
        for d in store.put("k", "first", writer=A, at=1, apply_at=A):
            store.deliver("k", d.host, d.obj, at=1)
        for d in store.put("k", "second", writer=B, at=7, apply_at=B):
            store.deliver("k", d.host, d.obj, at=7)
        assert store.converged("k")
        for host in (A, B, C):
            state = store.states["k"][host]
            assert (state.value, state.wall) == ("second", (7, B))
            assert state.vv == {A: 1, B: 1}

    def test_out_of_order_delivery_never_regresses(self):
        store = ReplicaStore()
        store.ensure("k", [A, B])
        d1 = store.put("k", "v1", writer=A, at=1, apply_at=A)
        d2 = store.put("k", "v2", writer=A, at=2, apply_at=A)
        store.deliver("k", B, d2[0].obj, at=3)
        store.deliver("k", B, d1[0].obj, at=4)
        assert value(store, B) == "v2"

    def test_gossip_needs_two_online_hosts(self):
        store = diverged_store()
        rng = RngStream(0, "gossip")
        assert store.gossip_round(9, rng, online=lambda h: h == A) == 0
        assert not store.converged("k")


class TestGossipConvergence:
    @pytest.mark.parametrize("r", [3, 5, 8])
    def test_two_concurrent_writes_settle_within_the_round_bound(self, r):
        hosts = [nid(i + 1) for i in range(r)]
        bound = 4 * math.ceil(math.log2(r))
        expected = merge(
            obj("w1", {hosts[0]: 1}, (5, hosts[0])),
            obj("w2", {hosts[-1]: 1}, (5, hosts[-1])),
        )
        for seed in range(20):
            store = ReplicaStore()
            store.ensure("k", hosts)
            store.put("k", "w1", writer=hosts[0], at=5, apply_at=hosts[0])
            store.put("k", "w2", writer=hosts[-1], at=5, apply_at=hosts[-1])
            rng = RngStream(seed, "gossip")
            rounds = 0
            while not store.converged("k"):
                rounds += 1
                assert rounds <= bound, f"r={r} seed={seed} still diverged after {rounds}"
                store.gossip_round(5 + rounds, rng, online=lambda h: True)
            assert store.states["k"][hosts[0]].same_state(expected)


class TestDurability:
    def survivors_only(self, alive):
        return lambda h: h in alive

    def test_rereplicate_restores_the_target_count(self):
        entries = []
        store = ReplicaStore(log=lambda at, key, action, node: entries.append(action))
        store.ensure("k", [A, B, C])
        for d in store.put("k", "payload", writer=A, at=1, apply_at=A):
            store.deliver("k", d.host, d.obj, at=1)
        replacements = iter([D, E])
        replaced = store.rereplicate(
            at=10,
            online=self.survivors_only({C, D, E}),
            pick_host=lambda key, exclude: next(replacements),
        )
        assert replaced == 2
        assert store.replica_hosts("k") == sorted([C, D, E])
        for host in (C, D, E):
            assert value(store, host) == "payload"
        assert store.converged("k")
        assert entries.count("rereplicate") == 2

    def test_replacement_hosts_never_overlap_the_current_set(self):
        store = ReplicaStore()
        store.ensure("k", [A, B, C])
        for d in store.put("k", "v", writer=A, at=1, apply_at=A):
            store.deliver("k", d.host, d.obj, at=1)
        seen = []
        store.rereplicate(
            at=5,
            online=self.survivors_only({C, D}),
            pick_host=lambda key, exclude: seen.append(sorted(exclude)) or D,
        )
        assert seen and all(C in ex for ex in seen)
        assert D not in seen[0] or len(seen) == 1

    def test_no_candidate_leaves_the_set_short(self):
        store = ReplicaStore()
        store.ensure("k", [A, B, C])
        store.put("k", "v", writer=C, at=1, apply_at=C)
        replaced = store.rereplicate(
            at=5, online=self.survivors_only({C}), pick_host=lambda key, exclude: None)
        assert replaced == 0
        assert store.replica_hosts("k") == [A, B, C]

    def test_total_loss_is_left_alone(self):
        store = ReplicaStore()
        store.ensure("k", [A, B])
        store.put("k", "v", writer=A, at=1, apply_at=A)
        replaced = store.rereplicate(
            at=5, online=self.survivors_only(set()), pick_host=lambda key, exclude: D)
        assert replaced == 0
        assert store.replica_hosts("k") == [A, B]
