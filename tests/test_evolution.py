"""Update diffusion over trust graphs: waves, thresholds, rollback."""
from collections import defaultdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from c3sim.engine import RngStream
from c3sim.evolution import (
    EvolutionError,
    HistoryUnderflow,
    UnknownParent,
    UnknownVersion,
    UpdateDiffusion,
)

from helpers import nid


def ring_trust(n):
    """Node i trusts only its successor, so a wave walks the ring backwards."""
    ids = [nid(i + 1) for i in range(n)]
    return ids, {ids[i]: (ids[(i + 1) % n],) for i in range(n)}


def reverse_bfs_levels(trust, origins):
    """First tick each node can adopt, when one convinced neighbor suffices."""
    incoming = defaultdict(list)
    for node, neighbors in trust.items():
        for nb in neighbors:
            incoming[nb].append(node)
    level = {o: 0 for o in origins}
    frontier, depth = list(origins), 0
    while frontier:
        depth += 1
        nxt = []
        for reached in frontier:
            for truster in incoming[reached]:
                if truster not in level:
                    level[truster] = depth
                    nxt.append(truster)
        frontier = nxt
    return level


class TestVersionForest:
    def test_root_registration_activates_everyone(self):
        ids, trust = ring_trust(4)
        diff = UpdateDiffusion(trust)
        diff.register_root("s", "1.0", 1.0)
        assert all(diff.active[(i, "s")] == "1.0" for i in ids)
        assert diff.adoption_fraction("s", "1.0") == 1.0
        assert diff.adoption_fraction("s", "2.0") == 0.0
        assert diff.fitness("s", "1.0") == 1.0

    def test_unknown_names_raise(self):
        ids, trust = ring_trust(3)
        diff = UpdateDiffusion(trust)
        diff.register_root("s", "1.0", 1.0)
        with pytest.raises(UnknownVersion):
            diff.fitness("s", "9.9")
        with pytest.raises(UnknownParent):
            diff.release("s", "2.0", "missing", 2.0, [])
        with pytest.raises(EvolutionError):
            diff.release("s", "1.0", "1.0", 2.0, [])

    def test_theta_outside_the_unit_interval_is_rejected(self):
        for bad in (0.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                UpdateDiffusion({}, theta=bad)

    def test_root_registration_leaves_nothing_pending(self):
        ids, trust = ring_trust(4)
        diff = UpdateDiffusion(trust, theta=0.5)
        diff.register_root("s", "1.0", 1.0)
        diff.register_root("t", "1.0", 2.0)
        assert diff._pending == set()
        assert diff.adoption_tick() == []
        assert all(v == "1.0" for v in diff.active.values())

    def test_release_switches_only_the_origins(self):
        ids, trust = ring_trust(5)
        diff = UpdateDiffusion(trust)
        diff.register_root("s", "1.0", 1.0)
        adoptions = diff.release("s", "2.0", "1.0", 2.0, [ids[0], ids[2]])
        assert [(a.node, a.cause, a.from_version, a.to_version)
                for a in adoptions] == [(ids[0], "release", "1.0", "2.0"),
                                        (ids[2], "release", "1.0", "2.0")]
        assert diff.adoption_fraction("s", "2.0") == 0.4
        assert diff.history[(ids[0], "s")] == ["1.0"]
        assert diff.history[(ids[1], "s")] == []


class TestDiffusionWaves:
    def test_ring_wave_moves_one_hop_per_tick(self):
        ids, trust = ring_trust(6)
        diff = UpdateDiffusion(trust, theta=0.5)
        diff.register_root("s", "1.0", 1.0)
        diff.release("s", "2.0", "1.0", 2.0, [ids[0]])
        expected_order = [ids[5], ids[4], ids[3], ids[2], ids[1]]
        for expected in expected_order:
            adoptions = diff.adoption_tick()
            assert [a.node for a in adoptions] == [expected]
            assert adoptions[0].cause == "adopt"
        assert diff.adoption_fraction("s", "2.0") == 1.0
        assert diff.adoption_tick() == []

    def test_wave_ticks_match_reverse_bfs_depths(self):
        rng = RngStream(5, "trust")
        ids = [nid(i + 1) for i in range(30)]
        trust = {}
        for node in ids:
            others = [i for i in ids if i != node]
            trust[node] = tuple(rng.sample(others, rng.randint(1, 4)))
        diff = UpdateDiffusion(trust, theta=0.25)
        diff.register_root("s", "1.0", 1.0)
        origin = ids[0]
        diff.release("s", "2.0", "1.0", 2.0, [origin])
        levels = reverse_bfs_levels(trust, [origin])
        seen = {origin: 0}
        tick = 0
        while True:
            tick += 1
            adoptions = diff.adoption_tick()
            if not adoptions:
                break
            for a in adoptions:
                seen[a.node] = tick
        assert seen == levels

    def test_threshold_counts_convinced_neighbors(self):
        a, b, x = nid(1), nid(2), nid(3)
        trust = {a: (), b: (), x: (a, b)}
        diff = UpdateDiffusion(trust, theta=0.6)
        diff.register_root("s", "1.0", 1.0)
        diff.release("s", "2.0", "1.0", 2.0, [a])
        assert diff.adoption_tick() == []  # 1/2 convinced < 0.6
        diff._switch(b, "s", "2.0", "release")
        adoptions = diff.adoption_tick()
        assert [a_.node for a_ in adoptions] == [x]

    def test_equal_fitness_never_spreads(self):
        ids, trust = ring_trust(4)
        diff = UpdateDiffusion(trust, theta=0.5)
        diff.register_root("s", "1.0", 2.0)
        diff.release("s", "2.0", "1.0", 2.0, [ids[0]])
        for _ in range(6):
            assert diff.adoption_tick() == []
        assert diff.adoption_fraction("s", "2.0") == 0.25

    def test_a_downgraded_node_snaps_back_to_its_fitter_neighborhood(self):
        ids, trust = ring_trust(4)
        diff = UpdateDiffusion(trust, theta=0.5)
        diff.register_root("s", "1.0", 2.0)
        diff.release("s", "0.9", "1.0", 1.0, [ids[2]])
        rows = diff.adoption_tick()
        assert [(r.node, r.to_version) for r in rows] == [(ids[2], "1.0")]
        assert diff.adoption_tick() == []

    def test_fittest_qualifying_version_wins(self):
        a, b, x = nid(1), nid(2), nid(3)
        trust = {a: (), b: (), x: (a, b)}
        diff = UpdateDiffusion(trust, theta=0.5)
        diff.register_root("s", "1.0", 1.0)
        diff.release("s", "2.0", "1.0", 2.0, [a])
        diff.release("s", "3.0", "1.0", 3.0, [b])
        adoptions = diff.adoption_tick()
        assert [(ad.node, ad.to_version) for ad in adoptions] == [(x, "3.0")]

    def test_equal_fitness_breaks_ties_on_the_version_name(self):
        a, b, x = nid(1), nid(2), nid(3)
        trust = {a: (), b: (), x: (a, b)}
        diff = UpdateDiffusion(trust, theta=0.5)
        diff.register_root("s", "1.0", 1.0)
        diff.release("s", "2.0a", "1.0", 2.0, [a])
        diff.release("s", "2.0b", "1.0", 2.0, [b])
        adoptions = diff.adoption_tick()
        assert [ad.to_version for ad in adoptions] == ["2.0b"]

    def test_offline_nodes_catch_up_when_they_return(self):
        ids, trust = ring_trust(4)
        diff = UpdateDiffusion(trust, theta=0.5)
        diff.register_root("s", "1.0", 1.0)
        diff.release("s", "2.0", "1.0", 2.0, [ids[0]])
        offline = {ids[3]}
        assert diff.adoption_tick(is_online=lambda n: n not in offline) == []
        offline = set()
        tick2 = diff.adoption_tick(is_online=lambda n: n not in offline)
        assert [a.node for a in tick2] == [ids[3]]
        tick3 = diff.adoption_tick()
        assert [a.node for a in tick3] == [ids[2]]

    def test_ticks_before_the_first_release_do_not_delay_the_wave(self):
        ids, trust = ring_trust(4)
        diff = UpdateDiffusion(trust, theta=0.5)
        diff.register_root("s", "1.0", 1.0)
        for _ in range(3):
            assert diff.adoption_tick() == []
        diff.release("s", "2.0", "1.0", 2.0, [ids[0]])
        for expected in (ids[3], ids[2], ids[1]):
            assert [a.node for a in diff.adoption_tick()] == [expected]
        assert diff.adoption_fraction("s", "2.0") == 1.0

    def test_a_node_offline_over_many_ticks_stays_pending(self):
        ids, trust = ring_trust(4)
        diff = UpdateDiffusion(trust, theta=0.5)
        diff.register_root("s", "1.0", 1.0)
        diff.release("s", "2.0", "1.0", 2.0, [ids[0]])
        for _ in range(4):
            assert diff.adoption_tick(is_online=lambda n: n != ids[3]) == []
            assert (ids[3], "s") in diff._pending
        assert diff.active[(ids[3], "s")] == "1.0"
        back = diff.adoption_tick(is_online=lambda n: True)
        assert [(a.node, a.to_version) for a in back] == [(ids[3], "2.0")]

    def test_snapshot_blocks_same_tick_cascades(self):
        ids, trust = ring_trust(8)
        diff = UpdateDiffusion(trust, theta=0.5)
        diff.register_root("s", "1.0", 1.0)
        diff.release("s", "2.0", "1.0", 2.0, [ids[0]])
        assert len(diff.adoption_tick()) == 1


class TestRollback:
    def test_rollback_retraces_the_history_exactly(self):
        x = nid(1)
        diff = UpdateDiffusion({x: ()})
        diff.register_root("s", "r", 1.0)
        path = ["v1", "v2", "v3"]
        for i, version in enumerate(path):
            diff.release("s", version, "r", 2.0 + i, [x])
        rows = diff.rollback(x, "s", 2)
        assert [(r.from_version, r.to_version, r.cause) for r in rows] == [
            ("v3", "v2", "rollback"), ("v2", "v1", "rollback")]
        assert diff.active[(x, "s")] == "v1"
        assert diff.history[(x, "s")] == ["r"]

    def test_underflow_and_bad_step_counts(self):
        x = nid(1)
        diff = UpdateDiffusion({x: ()})
        diff.register_root("s", "r", 1.0)
        with pytest.raises(HistoryUnderflow):
            diff.rollback(x, "s", 1)
        diff.release("s", "v1", "r", 2.0, [x])
        with pytest.raises(HistoryUnderflow):
            diff.rollback(x, "s", 2)
        with pytest.raises(HistoryUnderflow):
            diff.rollback(x, "s", 0)

    @given(st.lists(st.integers(0, 2), min_size=0, max_size=8))
    def test_rollback_inverts_any_switch_sequence(self, moves):
        x = nid(1)
        diff = UpdateDiffusion({x: ()})
        diff.register_root("s", "r", 1.0)
        for i in range(3):
            diff.release("s", f"v{i}", "r", 2.0 + i, [])
        shadow = ["r"]
        for i, m in enumerate(moves):
            diff._switch(x, "s", f"v{m}", "adopt")
            shadow.append(f"v{m}")
        while len(shadow) > 1:
            diff.rollback(x, "s", 1)
            shadow.pop()
            assert diff.active[(x, "s")] == shadow[-1]
        assert diff.history[(x, "s")] == []

    def test_readoption_can_follow_a_rollback(self):
        ids, trust = ring_trust(3)
        diff = UpdateDiffusion(trust, theta=0.5)
        diff.register_root("s", "1.0", 1.0)
        diff.release("s", "2.0", "1.0", 2.0, [ids[0]])
        assert [a.node for a in diff.adoption_tick()] == [ids[2]]
        diff.rollback(ids[2], "s", 1)
        assert diff.active[(ids[2], "s")] == "1.0"
        assert [a.node for a in diff.adoption_tick()] == [ids[2]]


class FullScan(UpdateDiffusion):
    """The reference for adoption_tick: its code before pending pairs,
    which scans every node and service at every tick."""

    def adoption_tick(self, is_online=None):
        snapshot = dict(self.active)
        out = []
        for node in sorted(self.trust):
            if is_online is not None and not is_online(node):
                continue
            neighbors = self.trust[node]
            if not neighbors:
                continue
            for service_id in sorted(self.versions):
                current = snapshot.get((node, service_id))
                if current is None:
                    continue
                choice = self._pick(node, service_id, current, neighbors, snapshot)
                if choice is not None:
                    out.append(self._switch(node, service_id, choice, "adopt"))
        return out


# (op, node, service, value): a release from node at fitness value / 64,
# a rollback of 1 + value % depth steps at a node with a history, or a
# tick with the nodes whose bit is set in value offline
node_ops = st.integers(0, 7), st.sampled_from(("s", "t")), st.integers(0, 255)
tick_op = st.tuples(st.just("tick"), st.just(0), st.just("s"),
                    st.just(0) | st.integers(0, 255))
# Ticks open each sequence, so some always run before the first release.
diffusion_ops = st.builds(
    lambda ticks, rest: ticks + rest, st.lists(tick_op, max_size=2),
    st.lists(st.tuples(st.sampled_from(("release", "rollback")), *node_ops)
             | tick_op, min_size=1, max_size=30))


class TestPendingPairs:
    @given(trust=st.lists(st.lists(st.integers(0, 7), max_size=4),
                          min_size=2, max_size=8),
           theta=st.sampled_from((0.25, 0.5, 0.6, 1.0)), ops=diffusion_ops)
    @settings(max_examples=200, deadline=None)
    # node 0 adopts, then declines, is rolled back and must adopt again
    @example(trust=[[1], []], theta=0.5,
             ops=[("release", 1, "s", 255), ("tick", 0, "s", 0),
                  ("tick", 0, "s", 0), ("rollback", 0, "s", 0),
                  ("tick", 0, "s", 0)])
    # nothing adopts before the release; node 0 is offline at the first
    # tick after it, and must adopt at the next one
    @example(trust=[[1], []], theta=0.5,
             ops=[("tick", 0, "s", 0), ("release", 1, "s", 255),
                  ("tick", 0, "s", 1), ("tick", 0, "s", 0)])
    def test_every_tick_equals_the_full_scan(self, trust, theta, ops):
        ids = [nid(i + 1) for i in range(len(trust))]
        graph = {ids[i]: tuple(dict.fromkeys(
            ids[j % len(ids)] for j in peers if j % len(ids) != i))
            for i, peers in enumerate(trust)}
        diffs = UpdateDiffusion(graph, theta), FullScan(graph, theta)
        released = {"s": ["1.0"], "t": ["1.0"]}
        for diff in diffs:
            diff.register_root("s", "1.0", 1.0)
            diff.register_root("t", "1.0", 2.0)
        for op, i, service, value in ops:
            node = ids[i % len(ids)]
            if op == "release":
                version = f"v{len(released[service])}"
                parent = released[service][value % len(released[service])]
                released[service].append(version)
                got = [d.release(service, version, parent, value / 64, [node])
                       for d in diffs]
            elif op == "rollback":
                # the i-th node (in a loop) with a history to step back in
                moved = [n for n in ids if diffs[0].history[(n, service)]]
                if not moved:
                    continue
                node = moved[i % len(moved)]
                depth = len(diffs[0].history[(node, service)])
                got = [d.rollback(node, service, 1 + value % depth)
                       for d in diffs]
            else:
                offline = {n for k, n in enumerate(ids) if value >> k & 1}
                got = [d.adoption_tick(lambda n: n not in offline)
                       for d in diffs]
            assert got[0] == got[1]
            assert diffs[0].active == diffs[1].active
