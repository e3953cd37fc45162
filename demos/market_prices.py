"""
Demand-driven pricing in a community currency
=============================================

Every completed request is paid for at posted per-unit prices. At the end
of each price window the market compares how much of each resource was
consumed against what the community could have supplied and multiplies
each price by a damped power of that ratio, clamped to a configured band.
The first half of this script drives the price rule directly through a
scarcity phase and a glut phase; the second half runs the small wiki
scenario and shows where prices settle in an over-provisioned community.
"""
from dataclasses import replace

from c3sim.ledger import MarketConfig, MarketPrice
from c3sim.resources import ResourceVector

market = MarketPrice(MarketConfig(
    initial={"compute": 10, "storage": 10, "bandwidth": 10},
    alpha=0.5, p_min=1, p_max=40))

# Eight windows of scarcity: the community consumes twice what it could
# supply, so each window multiplies the price by sqrt(2) until the cap.
print("scarcity, demand = 2x supply")
for window in range(8):
    market.update(demand=ResourceVector(200, 200, 200),
                  supply=ResourceVector(100, 100, 100))
    print(f"  window {window}: compute price {market.price('compute'):.3f}")

# Then the crowd leaves. Demand at a quarter of supply halves the price
# per window; the floor stops the slide.
print("glut, demand = supply / 4")
for window in range(8):
    market.update(demand=ResourceVector(25, 25, 25),
                  supply=ResourceVector(100, 100, 100))
    print(f"  window {window}: compute price {market.price('compute'):.3f}")

assert market.price("compute") == 1, "floor should have caught it"

# A window with no supply at all is priced as maximal scarcity.
market.update(ResourceVector(), ResourceVector())
assert market.price("compute") == 40
print("no supply at all jumps straight to the cap")

# The same rule inside a full run. The small wiki community has far more
# capacity than its workload needs, so prices slide to the floor and stay
# there; scaling demand up moves currency, not prices, until the community
# actually runs out of headroom.
from c3sim.harness import parse_scenario, run_scenario

config = parse_scenario("scenarios/wiki_small.ini")
baseline = run_scenario(config)
crowded = replace(config, workload=replace(config.workload,
                                           rate=config.workload.rate * 3))
busy = run_scenario(crowded)

print()
print(f"wiki_small, initial compute price "
      f"{config.market.initial['compute']:g}, "
      f"band [{config.market.p_min}, {config.market.p_max}]")
first = baseline.logs["prices"][0]
last = baseline.logs["prices"][-1]
print(f"first window ends at {first[0]} with compute {first[1]:.3f}, "
      f"run ends at {last[0]} with compute {last[1]:.3f}")
print(f"currency velocity: baseline {baseline.report['currency_velocity']:.1f}, "
      f"3x demand {busy.report['currency_velocity']:.1f}")
