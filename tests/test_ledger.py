"""Currency: transfers, batches, market prices, settlements, audits."""
from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c3sim.harness.audits import audit_conservation
from c3sim.ledger import (
    BURN,
    MINT,
    CreditLimitExceeded,
    MarketConfig,
    MarketPrice,
    Transfer,
    UnknownAccount,
    account_label,
)
from c3sim.resources import RESOURCE_KINDS, ResourceVector

from helpers import assert_conserved, flat_market, mint_and_burn, small_ledger


class TestTransfers:
    def test_zero_amount_is_a_logged_noop(self):
        ledger = small_ledger([("a", 10), ("b", 0)])
        ledger.transfer("a", "b", 0, "ping", at=1)
        assert ledger.accounts["a"].balance == 10
        assert ledger.accounts["b"].balance == 0
        assert len(ledger.log) == 1

    def test_ten_transfers_four_totals_unchanged(self):
        ledger = small_ledger([("a", 10), ("b", 0)])
        ledger.transfer("a", "b", 4, "pay", at=1)
        assert ledger.accounts["a"].balance == 6
        assert ledger.accounts["b"].balance == 4
        assert sum(a.balance for a in ledger.accounts.values()) == 10

    def test_credit_limit_blocks_and_leaves_state_alone(self):
        ledger = small_ledger([("a", 0, 5), ("b", 0)])
        with pytest.raises(CreditLimitExceeded):
            ledger.transfer("a", "b", 6, "pay", at=1)
        assert ledger.accounts["a"].balance == 0
        assert ledger.accounts["b"].balance == 0
        assert ledger.log == []
        ledger.transfer("a", "b", 5, "pay", at=2)  # exactly at the floor
        assert ledger.accounts["a"].balance == -5

    def test_unknown_account_raises(self):
        ledger = small_ledger([("a", 10)])
        with pytest.raises(UnknownAccount):
            ledger.transfer("a", "ghost", 1, "pay", at=1)
        with pytest.raises(UnknownAccount):
            ledger.transfer("ghost", "a", 1, "pay", at=1)

    def test_negative_amount_rejected(self):
        ledger = small_ledger([("a", 10), ("b", 0)])
        with pytest.raises(ValueError):
            ledger.transfer("a", "b", -1, "pay", at=1)


class TestBatches:
    def test_batch_logs_the_rows_it_is_given(self):
        ledger = small_ledger([("a", 10), ("b", 0), ("c", 0)])
        ops = [Transfer(9, "a", "b", 3, "x"), Transfer(9, "b", "c", 3, "y")]
        rows = ledger.apply_batch(ops)
        assert rows == ledger.log == ops
        assert (ledger.accounts["a"].balance, ledger.accounts["b"].balance,
                ledger.accounts["c"].balance) == (7, 0, 3)

    def test_batch_checks_staged_balances_not_just_current(self):
        # b starts at 0 but receives 3 in the same batch, then spends 2.
        ledger = small_ledger([("a", 10), ("b", 0), ("c", 0)])
        ledger.apply_batch(
            [Transfer(0, "a", "b", 3, "x"), Transfer(0, "b", "c", 2, "y")])
        assert ledger.accounts["b"].balance == 1

    def test_failed_batch_changes_nothing(self):
        ledger = small_ledger([("a", 10), ("b", 0)])
        with pytest.raises(CreditLimitExceeded):
            ledger.apply_batch(
                [Transfer(0, "a", "b", 3, "x"), Transfer(0, "b", "a", 9, "y")])
        assert ledger.accounts["a"].balance == 10
        assert ledger.accounts["b"].balance == 0
        assert ledger.log == []

    @given(st.lists(
        st.tuples(st.sampled_from(["a", "b", "c"]),
                  st.sampled_from(["a", "b", "c"]),
                  st.integers(min_value=0, max_value=30)),
        min_size=1, max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_batch_is_all_or_nothing(self, raw_ops):
        ledger = small_ledger([("a", 20, 5), ("b", 0, 0), ("c", 3, 10)])
        ops = [Transfer(0, s, d, amt, "w") for s, d, amt in raw_ops if s != d]

        def balances():
            return {k: a.balance for k, a in ledger.accounts.items()}

        before = balances()
        naive = dict(before)
        for op in ops:  # independent oracle: plain dict arithmetic
            naive[op.src] -= op.amount
            naive[op.dst] += op.amount
        try:
            ledger.apply_batch(ops)
        except (CreditLimitExceeded, ValueError):
            assert balances() == before
            assert ledger.log == []
        else:
            assert balances() == naive
        # no op mints or burns
        assert sum(balances().values()) == sum(ledger.opening_balances.values())


MICRO = 10 ** 6  # micro-credits per credit: the ledger's price unit


def snapped_step(price: Fraction, demand: int, supply: int, alpha: float,
                 p_min: int, p_max: int) -> Fraction:
    """The demand-response rule on exact rationals, snapped to 1/MICRO."""
    if supply <= 0:
        return Fraction(p_max)
    ratio = demand / supply
    factor = math.sqrt(ratio) if alpha == 0.5 else ratio ** alpha
    snapped = Fraction(round(float(price) * factor * MICRO), MICRO)
    return min(max(snapped, Fraction(p_min)), Fraction(p_max))


class TestPrices:
    def test_demand_equals_supply_price_unchanged(self):
        market = flat_market(price=10)
        market.update(ResourceVector(5, 5, 5), ResourceVector(5, 5, 5))
        assert market.price("compute") == 10
        assert market.price("storage") == 10
        assert market.price("bandwidth") == 10

    def test_demand_four_times_supply_doubles_price(self):
        # sqrt(4) = 2 exactly, p_max=100 leaves room: 10 -> 20.
        market = MarketPrice(MarketConfig(
            initial={k: 10 for k in RESOURCE_KINDS},
            alpha=0.5, p_min=1, p_max=100))
        market.update(ResourceVector(8, 8, 8), ResourceVector(2, 2, 2))
        assert market.price("compute") == 20

    def test_zero_demand_walks_to_p_min(self):
        market = flat_market(price=700)
        for _ in range(3):
            market.update(ResourceVector(), ResourceVector(5, 5, 5))
        assert market.price("compute") == market.config.p_min

    def test_zero_supply_pegs_to_p_max(self):
        market = flat_market(price=10)
        market.update(ResourceVector(5, 5, 5), ResourceVector(0, 1, 1))
        assert market.price("compute") == market.config.p_max
        assert market.price("storage") < market.config.p_max

    def test_clamped_at_p_max(self):
        market = flat_market(price=900)
        market.update(ResourceVector(10**6, 0, 0), ResourceVector(1, 1, 1))
        assert market.price("compute") == market.config.p_max

    @pytest.mark.parametrize("alpha", [308, 400])
    def test_a_factor_past_any_float_caps_a_price_and_keeps_zero(self, alpha):
        # Demand 10x supply: 10 ** 400 overflows the power itself, while
        # 10 ** 308 is a float whose product with a price of 1 or 2 is inf.
        market = MarketPrice(MarketConfig(
            initial={"compute": 2, "storage": 0, "bandwidth": 1},
            alpha=alpha, p_min=0, p_max=1000))
        market.update(ResourceVector(10, 10, 10), ResourceVector(1, 1, 1))
        assert [market.price(k) for k in RESOURCE_KINDS] == [1000, 0, 1000]

    def test_initial_price_outside_bounds_rejected(self):
        with pytest.raises(ValueError):
            MarketPrice(MarketConfig(initial={k: 0 for k in RESOURCE_KINDS}))

    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 50)),
                    min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_bounds_hold_and_sequence_is_deterministic(self, series):
        runs = []
        for _ in range(2):
            market = flat_market(price=10)
            seen = []
            for demand, supply in series:
                market.update(ResourceVector(demand, demand, demand),
                              ResourceVector(supply, supply, supply))
                price = market.price("compute")
                assert market.config.p_min <= price <= market.config.p_max
                seen.append(price)
            runs.append(seen)
        assert runs[0] == runs[1]

    def test_value_of_rounds_up_against_the_payer(self):
        market = flat_market(price=2)
        assert market.value_of(ResourceVector(compute=3)) == 6
        assert market.value_of(ResourceVector()) == 0
        market.micro["compute"] = 3 * MICRO // 2
        assert market.value_of(ResourceVector(compute=1)) == 2  # ceil(1.5)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_integer_prices_match_exact_rationals(self, data):
        p_min = data.draw(st.integers(0, 5), label="p_min")
        p_max = data.draw(st.integers(max(p_min, 1), 1000), label="p_max")
        alpha = data.draw(st.sampled_from([0.5, 0.25, 1.0, 2.0]), label="alpha")
        grid = st.integers(p_min * MICRO, p_max * MICRO)
        counts = st.integers(0, 10**6)
        micro = {k: data.draw(grid, label=k) for k in RESOURCE_KINDS}
        amounts = ResourceVector(*(data.draw(counts) for _ in RESOURCE_KINDS))
        demand = ResourceVector(*(data.draw(counts) for _ in RESOURCE_KINDS))
        supply = ResourceVector(*(data.draw(counts) for _ in RESOURCE_KINDS))
        market = MarketPrice(MarketConfig(
            initial={k: p_min for k in RESOURCE_KINDS},
            alpha=alpha, p_min=p_min, p_max=p_max))
        market.micro.update(micro)
        exact = {k: Fraction(micro[k], MICRO) for k in RESOURCE_KINDS}

        owed = sum(exact[k] * amounts.get(k) for k in RESOURCE_KINDS)
        assert market.value_of(amounts) == math.ceil(owed)
        assert market.basket() == float(sum(exact.values()))
        for kind in RESOURCE_KINDS:
            assert market.price(kind) == float(exact[kind])

        market.update(demand, supply)
        for kind in RESOURCE_KINDS:
            want = snapped_step(exact[kind], demand.get(kind), supply.get(kind),
                                alpha, p_min, p_max)
            assert Fraction(market.micro[kind], MICRO) == want


class TestSettlements:
    def test_subsidy_covers_gross_requester_pays_zero(self):
        ledger = small_ledger([("req", 0), ("host", 0), ("dev", 100)])
        rows = ledger.settlement_rows("req", "host", "dev", gross=5,
                                      subsidy=9, at=3)
        ledger.apply_batch(rows)
        assert ledger.accounts["req"].balance == 0
        assert ledger.accounts["host"].balance == 5
        assert ledger.accounts["dev"].balance == 95

    def test_partial_subsidy_splits_the_debit(self):
        ledger = small_ledger([("req", 10), ("host", 0), ("dev", 100)])
        rows = ledger.settlement_rows("req", "host", "dev", gross=5,
                                      subsidy=2, at=3, tag="41")
        assert {r.reason for r in rows} == {"service-payment:41",
                                            "subsidy:41"}
        ledger.apply_batch(rows)
        assert ledger.accounts["req"].balance == 7
        assert ledger.accounts["host"].balance == 5
        assert ledger.accounts["dev"].balance == 98

    @pytest.mark.parametrize("host, change", [
        ("host", {"req": -5, "host": 9, "dev": -4}),
        # self-hosted: the requester pays its share to itself
        ("req", {"req": 4, "host": 0, "dev": -4}),
    ])
    def test_requester_debit_equals_host_credit_in_zero_sum(self, host, change):
        ledger = small_ledger([("req", 50), ("host", 0), ("dev", 50)])
        rows = ledger.settlement_rows("req", host, "dev", gross=9,
                                      subsidy=4, at=1)
        ledger.apply_batch(rows)
        paid = sum(r.amount for r in rows if r.src in ("req", "dev"))
        assert paid == sum(r.amount for r in rows if r.dst == host) == 9
        assert {k: a.balance - ledger.opening_balances[k]
                for k, a in ledger.accounts.items()} == change
        assert_conserved(ledger)

    def test_zero_gross_yields_no_rows(self):
        ledger = small_ledger([("req", 10), ("host", 0), ("dev", 10)])
        assert ledger.settlement_rows("req", "host", "dev", 0, 5, at=1) == []

    def test_minting_routes_payment_to_burn_and_reward_from_mint(self):
        ledger = small_ledger([("req", 50), ("host", 0), ("dev", 50)],
                              market=flat_market(minting=True))
        rows = ledger.settlement_rows("req", "host", "dev", gross=6,
                                      subsidy=2, at=1)
        assert [(r.src, r.dst) for r in rows] == [
            ("req", BURN), ("dev", BURN), (MINT, "host")]
        ledger.apply_batch(rows)
        assert ledger.accounts["host"].balance == 6
        assert mint_and_burn(ledger) == (6, 6)
        assert_conserved(ledger)


class TestAudits:
    @given(st.lists(
        st.tuples(st.sampled_from(["a", "b", "c", MINT]),
                  st.sampled_from(["a", "b", "c", BURN]),
                  st.integers(min_value=0, max_value=25)),
        min_size=0, max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_replay_reproduces_final_balances(self, raw_ops):
        ledger = small_ledger([("a", 30, 5), ("b", 10, 0), ("c", 0, 8)])
        for src, dst, amount in raw_ops:
            if src == dst:
                continue
            try:
                ledger.transfer(src, dst, amount, "w", at=1)
            except CreditLimitExceeded:
                pass
            assert all(a.balance >= -a.credit_limit
                       for a in ledger.accounts.values())
        logs = {
            "transfers": [(r.at, r.src, r.dst, r.amount, r.reason)
                          for r in ledger.log],
            "balances": [(account_label(k), ledger.opening_balances[k],
                          a.balance, 0) for k, a in ledger.accounts.items()],
        }
        assert audit_conservation(logs) == []
        assert_conserved(ledger)

    def test_drift_definition_tracks_mint_and_burn(self):
        ledger = small_ledger([("a", 10)], market=flat_market(minting=True))
        ledger.transfer(MINT, "a", 7, "hosting-reward", at=1)
        ledger.transfer("a", BURN, 2, "service-payment", at=2)
        assert ledger.accounts["a"].balance == 15
        assert mint_and_burn(ledger) == (7, 2)
        assert_conserved(ledger)
