"""Post-run integrity checks over the emitted logs.

Each audit returns violation strings; an empty list is a pass. They work
on the same log tables the metrics use, so they run identically against a
live Runner or against CSVs read back from disk.
"""
from __future__ import annotations

from ..ledger import BURN, MINT
from .metrics import Logs, column_index, meta_map


def audit_conservation(logs: Logs) -> list[str]:
    """Replayed closing balances must match the ledger's, drift must be zero."""
    opening = {row[0]: row[1] for row in logs.get("balances", ())}
    closing = {row[0]: row[2] for row in logs.get("balances", ())}
    balances = dict(opening)
    minted = burned = 0
    for _at, src, dst, amount, _reason in logs.get("transfers", ()):
        if src == MINT:
            minted += amount
        else:
            balances[src] -= amount
        if dst == BURN:
            burned += amount
        else:
            balances[dst] += amount
    out = []
    for account in sorted(closing):
        if balances.get(account, 0) != closing[account]:
            out.append(f"conservation: {account} replays to "
                       f"{balances.get(account, 0)}, ledger says {closing[account]}")
    drift = (sum(closing.values())
             - (sum(opening.values()) + minted - burned))
    if drift != 0:
        out.append(f"conservation: net drift {drift}")
    return out


def audit_credit_floor(logs: Logs) -> list[str]:
    """No account may dip below its credit limit at any point in the replay."""
    balances = {row[0]: row[1] for row in logs.get("balances", ())}
    limits = {row[0]: row[3] for row in logs.get("balances", ())}
    out = []
    for at, src, dst, amount, _reason in logs.get("transfers", ()):
        if src != MINT:
            balances[src] -= amount
            if src in limits and balances[src] < -limits[src]:
                out.append(f"credit-floor: {src} at {balances[src]} "
                           f"(limit {limits[src]}) after tick {at}")
        if dst != BURN:
            balances[dst] = balances.get(dst, 0) + amount
    return out


def audit_price_bounds(logs: Logs) -> list[str]:
    meta = meta_map(logs)
    lo, hi = float(meta["p_min"]), float(meta["p_max"])
    out = []
    for at, compute, storage, bandwidth in logs.get("prices", ()):
        for kind, price in (("compute", compute), ("storage", storage),
                            ("bandwidth", bandwidth)):
            if not lo <= price <= hi:
                out.append(f"price-bounds: {kind}={price} at {at}")
    return out


def audit_payment_identity(logs: Logs) -> list[str]:
    """Per settled request: requester + developer debits equal the charge,
    and the host is credited exactly that charge."""
    paid: dict[str, int] = {}
    credited: dict[str, int] = {}
    hosts: dict[str, str] = {}
    for _at, _src, dst, amount, reason in logs.get("transfers", ()):
        base, _, tag = reason.partition(":")
        if not tag:
            continue
        if base in ("service-payment", "subsidy"):
            paid[tag] = paid.get(tag, 0) + amount
        if base in ("service-payment", "subsidy", "hosting-reward") and dst != BURN:
            credited[tag] = credited.get(tag, 0) + amount
            hosts[tag] = dst
    req_id = column_index("requests", "req_id")
    charged_col = column_index("requests", "charged")
    host_col = column_index("requests", "host")
    out = []
    for row in logs.get("requests", ()):
        tag = str(row[req_id])
        charged = row[charged_col]
        if charged != paid.get(tag, 0):
            out.append(f"payment-identity: request {tag} charged {charged}, "
                       f"debited {paid.get(tag, 0)}")
        if charged != credited.get(tag, 0):
            out.append(f"payment-identity: request {tag} charged {charged}, "
                       f"host credited {credited.get(tag, 0)}")
        if charged and hosts.get(tag, row[host_col]) != row[host_col]:
            out.append(f"payment-identity: request {tag} paid "
                       f"{hosts[tag]}, served by {row[host_col]}")
    stray = set(paid) - {str(r[req_id]) for r in logs.get("requests", ())}
    for tag in sorted(stray):
        out.append(f"payment-identity: settlement for unknown request {tag}")
    return out


def audit_termination(logs: Logs) -> list[str]:
    """Served calls terminate exactly when some actual exceeds its budget.

    Budget metering belongs to the community charging model; the vendor
    baseline bills after the fact and never terminates, so it is exempt.
    """
    if meta_map(logs).get("mode") == "vendor":
        return []
    cols = {name: column_index("requests", name) for name in
            ("req_id", "kind", "outcome", "declared_compute",
             "declared_storage", "declared_bandwidth", "actual_compute",
             "actual_storage", "actual_bandwidth")}
    out = []
    for row in logs.get("requests", ()):
        if row[cols["kind"]] == "session":
            continue
        outcome = row[cols["outcome"]]
        if outcome not in ("completed", "terminated"):
            continue
        over = any(row[cols[f"actual_{k}"]] > row[cols[f"declared_{k}"]]
                   for k in ("compute", "storage", "bandwidth"))
        if over and outcome != "terminated":
            out.append(f"termination: request {row[cols['req_id']]} over "
                       f"budget but {outcome}")
        if not over and outcome == "terminated":
            out.append(f"termination: request {row[cols['req_id']]} within "
                       f"budget but terminated")
    return out


AUDITS = (audit_conservation, audit_credit_floor, audit_price_bounds,
          audit_payment_identity, audit_termination)


def run_audits(logs: Logs) -> list[str]:
    out = []
    for audit in AUDITS:
        out.extend(audit(logs))
    return out
