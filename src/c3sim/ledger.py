"""Community currency: accounts, transfers, market prices, settlements.

Balances are integers and every movement is an append-only log row, so a run
can be audited by replaying the log against the opening balances. Transfers
against insufficient credit raise and change nothing; batches apply all rows
or none. The default economy is zero-sum (service payments move existing
units); a minting policy can be switched on, in which case rewards enter as
rows from the reserved account "mint" and payments leave through "burn", and
the conservation audit accounts for both.

Prices are integer micro-credits: a stored price k means k / PRICE_SNAP
credits, and no other module knows the unit. The demand-response update
multiplies the price by (demand/supply)**alpha in floats, rounds to the
nearest micro-credit and clamps into [p_min, p_max], so prices stay exact
while the exponent is irrational. A charge is the exact sum of k * amount,
divided by PRICE_SNAP and rounded up. Zero supply pegs a price to p_max;
zero demand walks it down to p_min.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .resources import RESOURCE_KINDS, ResourceVector

MINT = "mint"
BURN = "burn"
PRICE_SNAP = 10 ** 6

AccountKey = int | str  # a NodeId (an int with a `short` label) or a name


class LedgerError(Exception):
    pass


class UnknownAccount(LedgerError):
    pass


class CreditLimitExceeded(LedgerError):
    pass


def account_label(key: AccountKey) -> str:
    return key if isinstance(key, str) else key.short


@dataclass(slots=True)
class Account:
    """A balance and how far below zero it may go."""
    balance: int
    credit_limit: int = 0


@dataclass(slots=True)
class Transfer:
    """One ledger row. Nothing assigns to it after construction; it is not
    frozen because rows are built per settlement, and a frozen dataclass
    sets each field through object.__setattr__."""
    at: int
    src: AccountKey
    dst: AccountKey
    amount: int
    reason: str


@dataclass(frozen=True, slots=True)
class MarketConfig:
    """The market's starting unit prices, damping exponent and price
    bounds, and whether payments burn and hosting rewards are minted."""
    initial: dict[str, int]  # credits per unit, by resource kind
    alpha: float = 0.5
    p_min: int = 1
    p_max: int = 1000
    minting: bool = False


class MarketPrice:
    """Per-resource unit prices under the damped demand/supply rule."""

    def __init__(self, config: MarketConfig):
        for kind in RESOURCE_KINDS:
            if not config.p_min <= config.initial[kind] <= config.p_max:
                raise ValueError(f"initial {kind} price outside [p_min, p_max]")
        self.config = config
        # micro-credits per unit, by resource kind
        self.micro = {k: config.initial[k] * PRICE_SNAP for k in RESOURCE_KINDS}

    def price(self, kind: str) -> float:
        """Current unit price of one resource kind, in credits."""
        return self.micro[kind] / PRICE_SNAP

    def update(self, demand: ResourceVector, supply: ResourceVector) -> None:
        for kind in RESOURCE_KINDS:
            self.micro[kind] = self._step(self.micro[kind],
                                          demand.get(kind), supply.get(kind))

    def _step(self, micro: int, demand: int, supply: int) -> int:
        cfg = self.config
        cap = cfg.p_max * PRICE_SNAP
        if supply <= 0:
            return cap
        try:
            ratio = demand / supply
            if cfg.alpha == 0.5:
                factor = math.sqrt(ratio)
            else:
                factor = ratio ** cfg.alpha
        except OverflowError:  # no float holds the factor; zero stays zero
            return cap if micro > 0 else cfg.p_min * PRICE_SNAP
        snapped = micro / PRICE_SNAP * factor * PRICE_SNAP
        if snapped >= cap:  # inf included, which round rejects
            return cap
        return max(round(snapped), cfg.p_min * PRICE_SNAP)

    def basket(self) -> float:
        """Price of one unit of every resource."""
        return sum(self.micro.values()) / PRICE_SNAP

    def value_of(self, amounts: ResourceVector) -> int:
        """Currency owed for the amounts at current prices, rounded up."""
        m = self.micro
        total = (m["compute"] * amounts.compute + m["storage"] * amounts.storage
                 + m["bandwidth"] * amounts.bandwidth)
        return -(-total // PRICE_SNAP) if total > 0 else 0


class Ledger:
    def __init__(self, market: MarketPrice):
        self.market = market
        self.accounts: dict[AccountKey, Account] = {}
        self.log: list[Transfer] = []
        # keyed by owner, not display label: drift must not depend on labels
        self.opening_balances: dict[AccountKey, int] = {}

    # -- accounts -------------------------------------------------------------

    def open_account(self, owner: AccountKey, balance: int = 0,
                     credit_limit: int = 0) -> Account:
        if owner in self.accounts or owner in (MINT, BURN):
            raise LedgerError(f"account exists: {account_label(owner)}")
        if credit_limit < 0:
            raise ValueError("credit limit must be non-negative")
        acct = Account(balance, credit_limit)
        self.accounts[owner] = acct
        self.opening_balances[owner] = balance
        return acct

    def can_cover(self, owner: AccountKey, amount: int) -> bool:
        acct = self._account(owner)
        return acct.balance - amount >= -acct.credit_limit

    def _account(self, owner: AccountKey) -> Account:
        try:
            return self.accounts[owner]
        except KeyError:
            raise UnknownAccount(account_label(owner)) from None

    # -- transfers ------------------------------------------------------------

    def transfer(self, src: AccountKey, dst: AccountKey, amount: int,
                 reason: str, at: int) -> Transfer:
        return self.apply_batch([Transfer(at, src, dst, amount, reason)])[0]

    def apply_batch(self, ops: list[Transfer]) -> list[Transfer]:
        """The one write path, all rows or none: each row is checked against
        the balances staged by the rows before it, then every row is applied
        and logged as given, at the tick it carries. A refusal raises a
        LedgerError; a negative amount, which no caller builds, ValueError."""
        staged: dict[AccountKey, int] = {}
        for row in ops:
            src, dst, amount = row.src, row.dst, row.amount
            if amount < 0:
                raise ValueError("transfer amount must be non-negative")
            if dst != BURN:
                self._account(dst)
            if src != MINT:
                acct = self._account(src)
                effective = acct.balance + staged.get(src, 0) - amount
                if effective < -acct.credit_limit:
                    raise CreditLimitExceeded(
                        f"{account_label(src)}: {effective} < -{acct.credit_limit}")
                staged[src] = staged.get(src, 0) - amount
            if dst != BURN:
                staged[dst] = staged.get(dst, 0) + amount
        for row in ops:
            if row.src != MINT:
                self.accounts[row.src].balance -= row.amount
            if row.dst != BURN:
                self.accounts[row.dst].balance += row.amount
        self.log.extend(ops)
        return ops

    # -- service settlements ----------------------------------------------------

    def settlement_rows(self, requester: AccountKey, host: AccountKey,
                        developer: AccountKey, gross: int,
                        subsidy: int, at: int, tag: str = "") -> list[Transfer]:
        """Rows moving `gross` to the host, subsidised up to `subsidy`.

        Requester pays gross minus the subsidy part, the developer account
        covers the rest, the host always receives gross. Under minting the
        payments burn and the reward is minted instead. A non-empty tag is
        appended to each reason so audits can regroup the rows per request.
        """
        if gross <= 0:
            return []
        suffix = f":{tag}" if tag else ""
        part = min(subsidy, gross)
        pay_to = BURN if self.market.config.minting else host
        rows = []
        if gross - part > 0:
            rows.append(Transfer(at, requester, pay_to, gross - part,
                                 f"service-payment{suffix}"))
        if part > 0:
            rows.append(Transfer(at, developer, pay_to, part, f"subsidy{suffix}"))
        if self.market.config.minting:
            rows.append(Transfer(at, MINT, host, gross, f"hosting-reward{suffix}"))
        return rows
