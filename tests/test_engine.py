"""Event core: ordering, cancellation, stream isolation, arrival statistics."""
from __future__ import annotations

import hashlib
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from c3sim.engine import PastEvent, RngStream, Simulator, derive_seed


def recorder(sim: Simulator) -> tuple[list, object]:
    """A log and a handler that appends (tick, *args) of each call to it."""
    seen = []
    return seen, lambda *args: seen.append((sim.now, *args))


class TestClockAndOrdering:
    def test_empty_run_clock_advances_to_horizon(self):
        sim = Simulator(seed=1, horizon=250)
        assert sim.run().total_processed == 0
        assert sim.now == 250

    def test_same_tick_fires_in_schedule_order(self):
        sim = Simulator(seed=1, horizon=100)
        seen, tick = recorder(sim)
        for marker in ("a", "b", "c"):
            sim.at(5, tick, marker)
        sim.run()
        assert seen == [(5, "a"), (5, "b"), (5, "c")]

    def test_zero_delay_fires_before_clock_advances(self):
        sim = Simulator(seed=1, horizon=100)
        fired_at, fire = recorder(sim)
        sim.at(10, lambda: sim.at(sim.now, fire, "child"))
        sim.at(11, fire, "later")
        sim.run()
        assert fired_at == [(10, "child"), (11, "later")]

    def test_schedule_in_past_raises(self):
        sim = Simulator(seed=1, horizon=100)
        sim.run(until=40)
        assert sim.now == 40
        with pytest.raises(PastEvent):
            sim.at(39, lambda: None)

    def test_event_at_horizon_fires_beyond_does_not(self):
        sim = Simulator(seed=1, horizon=50)
        seen, edge = recorder(sim)
        sim.at(50, edge, "on")
        sim.at(51, edge, "past")
        sim.run()
        assert seen == [(50, "on")]
        assert sim.now == 50


class TestCancellation:
    def test_cancel_pending_true_then_false(self):
        sim = Simulator(seed=1, horizon=100)
        ev = sim.at(10, lambda: None)
        assert sim.cancel(ev) is True
        assert sim.cancel(ev) is False

    @pytest.mark.parametrize("until", [None, 10])
    def test_cancel_after_fire_is_false(self, until):
        sim = Simulator(seed=1, horizon=100)
        ev = sim.at(10, lambda: None)
        sim.run(until=until)
        assert sim.cancel(ev) is False

    def test_cancelled_run_equals_never_scheduled(self):
        # Oracle: a second simulator that never saw the cancelled events.
        def base_schedule(sim, handler):
            for t in range(0, 100, 7):
                sim.at(t, handler, "work", t)
            sim.at(99, handler, "done")

        sim_a = Simulator(seed=3, horizon=100)
        log_a, handler_a = recorder(sim_a)
        base_schedule(sim_a, handler_a)
        doomed = [sim_a.at(t, handler_a, "noise") for t in range(0, 100, 5)]
        for ev in doomed:
            assert sim_a.cancel(ev)
        got = sim_a.run()

        sim_b = Simulator(seed=3, horizon=100)
        log_b, handler_b = recorder(sim_b)
        base_schedule(sim_b, handler_b)
        want = sim_b.run()

        assert got.total_processed == want.total_processed
        assert sim_a.now == sim_b.now
        assert log_a == log_b


class TestDeterminism:
    @staticmethod
    def _noisy_run(seed: int) -> tuple:
        sim = Simulator(seed=seed, horizon=5000)
        log = []
        rng = sim.stream("load")

        def pulse(source):
            log.append((sim.now, source))
            sim.at(sim.now + 1 + rng.randrange(40), pulse, source)

        sim.at(0, pulse, "a")
        sim.at(0, pulse, "b")
        summary = sim.run()
        return summary, tuple(log)

    def test_same_seed_same_log(self):
        assert self._noisy_run(11) == self._noisy_run(11)

    def test_different_seed_differs(self):
        assert self._noisy_run(11)[1] != self._noisy_run(12)[1]

    @given(st.lists(st.integers(min_value=0, max_value=999),
                    min_size=0, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_processed_log_totally_ordered(self, times):
        sim = Simulator(seed=1, horizon=1000)
        log, handler = recorder(sim)
        for i, t in enumerate(times):
            sim.at(t, handler, i)
        sim.run()
        # Each row is (tick, i): seq is monotone in scheduling order, so the
        # scheduling index i orders ties as seq does.
        assert log == sorted(log)
        assert len(log) == len(times)


class TestStreams:
    def test_label_hash_matches_documented_derivation(self):
        digest = hashlib.sha256(b"123:overlay").digest()
        assert derive_seed(123, "overlay") == int.from_bytes(digest[:8], "big")

    def test_streams_are_isolated(self):
        # Draws on one stream must not shift another stream's sequence.
        sim1 = Simulator(seed=9, horizon=1)
        sim1.stream("a").random()
        sim1.stream("a").random()
        b_after_a = [sim1.stream("b").random() for _ in range(5)]

        sim2 = Simulator(seed=9, horizon=1)
        b_alone = [sim2.stream("b").random() for _ in range(5)]
        assert b_after_a == b_alone

    def test_same_label_reproduces_and_labels_differ(self):
        xs = [RngStream(4, "x").random() for _ in range(3)]
        assert xs[0] == xs[1] == xs[2]
        assert RngStream(4, "x").random() != RngStream(4, "y").random()
        assert RngStream(4, "x").random() != RngStream(5, "x").random()

    # n = 1, 2^k - 1, 2^k and 2^k + 1 for bit widths up to 100, and any n.
    _edges = st.integers(1, 100).flatmap(
        lambda k: st.sampled_from((2 ** k - 1, 2 ** k, 2 ** k + 1)))

    @given(seed=st.integers(0, 2 ** 64), low=st.integers(-10 ** 9, 10 ** 9),
           n=st.one_of(st.just(1), _edges, st.integers(1, 2 ** 200)))
    @example(seed=0, low=0, n=1)
    @example(seed=3, low=-5, n=2 ** 32 + 1)
    @settings(max_examples=200, deadline=None)
    def test_below_draws_what_randrange_and_randint_draw(self, seed, low, n):
        """below(n) is randrange(n), and low + below(n) is randint(low,
        low + n - 1), on a twin stream in the same state; afterwards both
        streams are in the same state, so every later draw agrees too."""
        mine, twin = RngStream(seed, "w"), RngStream(seed, "w")
        assert ([mine.below(n) for _ in range(4)]
                == [twin.randrange(n) for _ in range(4)])
        assert mine.getstate() == twin.getstate()
        assert ([low + mine.below(n) for _ in range(4)]
                == [twin.randint(low, low + n - 1) for _ in range(4)])
        assert mine.getstate() == twin.getstate()

    @pytest.mark.parametrize("n", [0, -1, -(2 ** 40)])
    def test_below_refuses_an_empty_range(self, n):
        with pytest.raises(ValueError):
            RngStream(1, "w").below(n)


def test_poisson_arrival_count_within_three_sigma():
    """Self-rescheduling arrivals at rate 0.01/tick over 10^7 ticks.

    Oracle: count ~ Poisson(10^5), so |count - 10^5| <= 3*sqrt(10^5) ~= 948.7
    except with probability ~0.3%. Seed fixed, so this never flakes.
    """
    lam = 0.01
    horizon = 10_000_000
    sim = Simulator(seed=20, horizon=horizon)
    rng = sim.stream("arrivals")

    def arrive():
        sim.at(sim.now + max(1, round(rng.expovariate(lam))), arrive)

    sim.at(max(1, round(rng.expovariate(lam))), arrive)
    count = sim.run().total_processed  # every event is an arrival
    assert abs(count - 100_000) <= 3 * math.sqrt(100_000)
